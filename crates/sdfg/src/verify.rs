//! Structural SDFG verification.
//!
//! [`Sdfg::validate`] walks the whole graph — control flow, states, map
//! bodies — and returns every structural problem it can find as a
//! [`Diagnostic`] carrying a severity, a location (state index and node id
//! where applicable) and a human-readable message.  The runtime runs this
//! pass inside `compile()` and rejects SDFGs with error-severity
//! diagnostics, so malformed graphs are reported once, at compile time,
//! instead of surfacing as lazy per-node execution errors.
//!
//! Severity policy:
//!
//! * **Error** — the construct is unambiguously broken and cannot execute
//!   meaningfully: dangling memlet endpoints, references to undeclared
//!   arrays or states, cyclic dataflow graphs, subset-rank vs array-rank
//!   mismatches, constant indices provably out of bounds against constant
//!   shape dimensions, inconsistent map scopes (parameter/range arity
//!   mismatch, duplicate parameters), tasklet edges without a connector,
//!   out connectors without an assignment and expressions reading a
//!   connector no in-edge feeds, and library nodes with a
//!   missing, unknown or doubly-fed connector or an operand of the wrong
//!   rank (the operands' *sizes* depend on symbol values and are checked
//!   when the runtime lowers the node).
//! * **Warning** — suspicious but executable (or only checkable with more
//!   context than the pure structure provides): free subset symbols that
//!   are neither declared SDFG symbols, loop iterators, nor in-scope map
//!   parameters; iterator names shadowing an outer binding; memlets whose
//!   `data` disagrees with the access node they attach to; constant zero
//!   loop steps; states that no control-flow node references (they are
//!   lowered and listed like the others, but can never run).

use std::collections::BTreeSet;
use std::fmt;

use crate::graph::{DataflowGraph, DfNode, LibraryOp, NodeId};
use crate::memlet::IndexRange;
use crate::sdfg::{CondExpr, CondOperand, ControlFlow, Sdfg};
use crate::symexpr::SymExpr;

/// How severe a [`Diagnostic`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but executable structure.
    Warning,
    /// Unambiguously broken structure; `compile()` rejects the SDFG.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Machine-readable diagnostic category (with the offending name/id where
/// one exists, so callers can match without parsing messages).
#[derive(Clone, Debug, PartialEq)]
pub enum DiagCode {
    /// Control flow references a state index that does not exist.
    UnknownState(usize),
    /// No control-flow node references the state: it can never run.
    UnreachableState(usize),
    /// A state's dataflow graph is cyclic.
    CyclicState(String),
    /// An edge endpoint is not a node of its graph.
    DanglingEdge,
    /// An access node or memlet references an undeclared array.
    UnknownArray(String),
    /// A symbolic expression references a name that is neither an SDFG
    /// symbol, a loop iterator, nor an in-scope map parameter.
    UnknownSymbol(String),
    /// A memlet subset's rank differs from the declared array rank, or a
    /// library operand's rank from the one its connector takes.
    RankMismatch,
    /// A constant index is out of bounds against a constant shape.
    IndexOutOfBounds,
    /// A map scope's parameter and range lists have different lengths.
    MapArity,
    /// A map scope declares the same parameter twice.
    DuplicateParam,
    /// An iterator or parameter shadows an outer binding.
    ShadowedName(String),
    /// A loop region's step is constant zero.
    ZeroStep,
    /// A tasklet or library edge is missing a connector or names an unknown
    /// one, or a library node lacks an operand, its output, or has an input
    /// connector fed twice.
    BadConnector,
    /// A memlet's `data` disagrees with the access node it attaches to.
    DataMismatch,
}

/// One structural problem found by [`Sdfg::validate`].
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    pub severity: Severity,
    pub code: DiagCode,
    /// Index of the state the problem was found in (`None` for control-flow
    /// or array-declaration problems).
    pub state: Option<usize>,
    /// Node id within the (possibly nested) graph, when the problem is
    /// attached to a node or one of its edges.
    pub node: Option<NodeId>,
    /// Human-readable description, including state names and expressions.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.severity, self.message)
    }
}

/// Whether any edge endpoint is outside the node list (such graphs cannot
/// be topologically sorted).
fn has_dangling_edges(graph: &DataflowGraph) -> bool {
    graph
        .edges
        .iter()
        .any(|e| e.src >= graph.nodes.len() || e.dst >= graph.nodes.len())
}

/// Walks one SDFG, accumulating diagnostics.
struct Verifier<'a> {
    sdfg: &'a Sdfg,
    /// Declared SDFG symbols plus every control-flow loop iterator; map
    /// parameters extend this per scope during graph recursion.
    known_syms: BTreeSet<String>,
    diags: Vec<Diagnostic>,
}

impl<'a> Verifier<'a> {
    fn push(
        &mut self,
        severity: Severity,
        code: DiagCode,
        state: Option<usize>,
        node: Option<NodeId>,
        message: String,
    ) {
        self.diags.push(Diagnostic {
            severity,
            code,
            state,
            node,
            message,
        });
    }

    fn state_name(&self, state: Option<usize>) -> &str {
        state
            .and_then(|s| self.sdfg.states.get(s))
            .map(|s| s.name.as_str())
            .unwrap_or("<cfg>")
    }

    /// The symbols of `e` that are neither declared nor in `scope`, in name
    /// order.  Nothing is allocated unless there is one.
    fn unknown_symbols<'e>(&self, e: &'e SymExpr, scope: &[String]) -> BTreeSet<&'e str> {
        let mut unknown = BTreeSet::new();
        e.visit_symbols(&mut |s| {
            if !self.known_syms.contains(s) && !scope.iter().any(|p| p == s) {
                unknown.insert(s);
            }
        });
        unknown
    }

    /// Check that every free symbol of `e` is in scope.
    fn check_expr_syms(
        &mut self,
        e: &SymExpr,
        scope: &[String],
        state: Option<usize>,
        node: Option<NodeId>,
        what: &str,
    ) {
        for s in self.unknown_symbols(e, scope) {
            let loc = self.state_name(state).to_string();
            self.push(
                Severity::Warning,
                DiagCode::UnknownSymbol(s.to_string()),
                state,
                node,
                format!("undeclared symbol `{s}` in {what} `{e}` (state `{loc}`)"),
            );
        }
    }

    fn check_cf(&mut self, cf: &ControlFlow) {
        match cf {
            ControlFlow::State(id) => {
                if *id >= self.sdfg.states.len() {
                    self.push(
                        Severity::Error,
                        DiagCode::UnknownState(*id),
                        None,
                        None,
                        format!(
                            "control flow references state {id}, but only {} states exist",
                            self.sdfg.states.len()
                        ),
                    );
                }
            }
            ControlFlow::Sequence(items) => {
                for item in items {
                    self.check_cf(item);
                }
            }
            ControlFlow::Loop(l) => {
                if self.sdfg.symbols.contains(&l.var) {
                    self.push(
                        Severity::Warning,
                        DiagCode::ShadowedName(l.var.clone()),
                        None,
                        None,
                        format!("loop iterator `{}` shadows an SDFG symbol", l.var),
                    );
                }
                for (e, what) in [
                    (&l.start, "loop start"),
                    (&l.end, "loop end"),
                    (&l.step, "loop step"),
                ] {
                    self.check_expr_syms(e, &[], None, None, what);
                }
                if l.step.is_const(0) {
                    self.push(
                        Severity::Warning,
                        DiagCode::ZeroStep,
                        None,
                        None,
                        format!("loop over `{}` has constant step 0", l.var),
                    );
                }
                self.check_cf(&l.body);
            }
            ControlFlow::Branch(b) => {
                self.check_cond(&b.cond);
                self.check_cf(&b.then_body);
                if let Some(else_body) = &b.else_body {
                    self.check_cf(else_body);
                }
            }
        }
    }

    fn check_cond(&mut self, cond: &CondExpr) {
        match cond {
            CondExpr::Cmp { lhs, rhs, .. } => {
                self.check_operand(lhs);
                self.check_operand(rhs);
            }
            CondExpr::Not(inner) => self.check_cond(inner),
            CondExpr::StoredFlag(array) => self.check_cond_array(array, None),
        }
    }

    fn check_operand(&mut self, op: &CondOperand) {
        match op {
            CondOperand::Const(_) => {}
            CondOperand::Sym(e) => self.check_expr_syms(e, &[], None, None, "branch condition"),
            CondOperand::Element { array, index } => {
                self.check_cond_array(array, Some(index));
            }
        }
    }

    fn check_cond_array(&mut self, array: &str, index: Option<&Vec<SymExpr>>) {
        let Some(desc) = self.sdfg.arrays.get(array) else {
            self.push(
                Severity::Error,
                DiagCode::UnknownArray(array.to_string()),
                None,
                None,
                format!("branch condition reads undeclared array `{array}`"),
            );
            return;
        };
        if let Some(index) = index {
            if index.len() != desc.shape.len() {
                self.push(
                    Severity::Error,
                    DiagCode::RankMismatch,
                    None,
                    None,
                    format!(
                        "branch condition indexes `{array}` with rank {} (declared rank {})",
                        index.len(),
                        desc.shape.len()
                    ),
                );
                return;
            }
            for (d, e) in index.iter().enumerate() {
                self.check_expr_syms(e, &[], None, None, "branch condition index");
                self.check_const_bound(e, &desc.shape[d], array, None, None);
            }
        }
    }

    /// Flag a constant index against a constant shape dimension.
    fn check_const_bound(
        &mut self,
        index: &SymExpr,
        dim: &SymExpr,
        array: &str,
        state: Option<usize>,
        node: Option<NodeId>,
    ) {
        // `eval_const` names the symbol it stopped at, an allocation per
        // symbolic index; only constants are of interest here.
        let symbolic = |e: &SymExpr| {
            let mut any = false;
            e.visit_symbols(&mut |_| any = true);
            any
        };
        if symbolic(index) || symbolic(dim) {
            return;
        }
        let (Ok(i), Ok(n)) = (index.eval_const(), dim.eval_const()) else {
            return;
        };
        if i < 0 || i >= n {
            let loc = self.state_name(state).to_string();
            self.push(
                Severity::Error,
                DiagCode::IndexOutOfBounds,
                state,
                node,
                format!(
                    "index {i} out of bounds for `{array}` dimension of extent {n} (state `{loc}`)"
                ),
            );
        }
    }

    /// A library node executes whole operands by connector name: every input
    /// connector fed exactly once, the output written at least once (fanning
    /// it out to several containers is fine), no other connector, and every
    /// operand of the rank its connector takes.
    fn check_library(&mut self, graph: &DataflowGraph, id: NodeId, op: &LibraryOp, state: usize) {
        let mut found: Vec<(DiagCode, String)> = Vec::new();
        // (connector, array) of every edge on each side of the node.
        let ins: Vec<(Option<&str>, &String)> = (graph.in_edges(id).iter())
            .map(|e| (e.dst_conn.as_deref(), &e.memlet.data))
            .collect();
        let outs: Vec<(Option<&str>, &String)> = (graph.out_edges(id).iter())
            .map(|e| (e.src_conn.as_deref(), &e.memlet.data))
            .collect();
        for conn in op.input_connectors() {
            let fed = ins.iter().filter(|(c, _)| *c == Some(conn)).count();
            if fed != 1 {
                let what = format!("has {fed} operands on `{conn}`");
                found.push((DiagCode::BadConnector, what));
            }
        }
        if outs.is_empty() {
            found.push((DiagCode::BadConnector, "writes its output nowhere".into()));
        }
        // `Copy` takes any rank, as long as both sides have it.
        let rank_of = |array: &String| self.sdfg.arrays.get(array).map(|d| d.shape.len());
        let copied = ins.first().and_then(|(_, array)| rank_of(array));
        let sides = [
            (&ins, op.input_connectors(), None),
            (&outs, op.output_connectors(), copied),
        ];
        for (edges, known, any_rank) in sides {
            for &(conn, array) in edges {
                let Some(conn) = conn.filter(|c| known.contains(c)) else {
                    let what = format!("has an edge on connector {conn:?}, which it lacks");
                    found.push((DiagCode::BadConnector, what));
                    continue;
                };
                // An undeclared array is reported with the edge.
                let (Some(want), Some(got)) = (op.operand_rank(conn).or(any_rank), rank_of(array))
                else {
                    continue;
                };
                if want != got {
                    let what =
                        format!("takes rank {want} on `{conn}`, but `{array}` has rank {got}");
                    found.push((DiagCode::RankMismatch, what));
                }
            }
        }
        if found.is_empty() {
            return;
        }
        let loc = self.state_name(Some(state)).to_string();
        for (code, what) in found {
            let message = format!("library node `{op:?}` {what} (state `{loc}`)");
            self.push(Severity::Error, code, Some(state), Some(id), message);
        }
    }

    fn check_graph(&mut self, graph: &DataflowGraph, state: usize, scope: &mut Vec<String>) {
        // Nodes (recursing into map bodies with extended parameter scope).
        for (id, node) in graph.nodes.iter().enumerate() {
            match node {
                DfNode::Access(name) => {
                    if !self.sdfg.arrays.contains_key(name) {
                        let loc = self.state_name(Some(state)).to_string();
                        self.push(
                            Severity::Error,
                            DiagCode::UnknownArray(name.clone()),
                            Some(state),
                            Some(id),
                            format!(
                                "access node references undeclared array `{name}` (state `{loc}`)"
                            ),
                        );
                    }
                }
                DfNode::Tasklet(t) => {
                    // Connector hygiene: lowering could not resolve the
                    // edge, so `compile()` rejects it.  The walk notes where
                    // the in-edges lie, so a read below scans only that
                    // stretch of the edge list.
                    let (mut first, mut last, mut unnamed) = (usize::MAX, 0, false);
                    for (k, e) in graph.edges.iter().enumerate() {
                        if e.dst != id {
                            continue;
                        }
                        (first, last) = (first.min(k), k);
                        if e.dst_conn.is_none() {
                            unnamed = true;
                            self.push(
                                Severity::Error,
                                DiagCode::BadConnector,
                                Some(state),
                                Some(id),
                                format!("in-edge of tasklet `{}` has no connector", t.label),
                            );
                        }
                    }
                    // Every connector an expression reads has an in-edge.
                    // An unnamed in-edge, reported above, may be its feed.
                    let in_edges = graph.edges.get(first..=last).unwrap_or_default();
                    let mut unknown: Vec<&str> = Vec::new();
                    let mut check = |conn| {
                        let fed = (in_edges.iter())
                            .any(|e| e.dst == id && e.dst_conn.as_deref() == Some(conn));
                        if !fed && !unknown.contains(&conn) {
                            unknown.push(conn);
                        }
                    };
                    if !unnamed {
                        for (_, expr) in &t.code {
                            expr.for_each_input(&mut check);
                        }
                    }
                    for conn in unknown {
                        self.push(
                            Severity::Error,
                            DiagCode::BadConnector,
                            Some(state),
                            Some(id),
                            format!(
                                "tasklet `{}` reads connector `{conn}`, which no in-edge feeds",
                                t.label
                            ),
                        );
                    }
                    for e in graph.edges.iter().filter(|e| e.src == id) {
                        match e.src_conn.as_deref() {
                            None => self.push(
                                Severity::Error,
                                DiagCode::BadConnector,
                                Some(state),
                                Some(id),
                                format!("out-edge of tasklet `{}` has no connector", t.label),
                            ),
                            Some(conn) if !t.code.iter().any(|(out, _)| out == conn) => self.push(
                                Severity::Error,
                                DiagCode::BadConnector,
                                Some(state),
                                Some(id),
                                format!(
                                    "tasklet `{}` has no assignment for out connector `{conn}`",
                                    t.label
                                ),
                            ),
                            Some(_) => {}
                        }
                    }
                }
                DfNode::MapScope(m) => {
                    if m.params.len() != m.ranges.len() {
                        let loc = self.state_name(Some(state)).to_string();
                        self.push(
                            Severity::Error,
                            DiagCode::MapArity,
                            Some(state),
                            Some(id),
                            format!(
                                "map has {} parameters but {} ranges (state `{loc}`)",
                                m.params.len(),
                                m.ranges.len()
                            ),
                        );
                    }
                    for (i, p) in m.params.iter().enumerate() {
                        if m.params[..i].contains(p) {
                            self.push(
                                Severity::Error,
                                DiagCode::DuplicateParam,
                                Some(state),
                                Some(id),
                                format!("map declares parameter `{p}` twice"),
                            );
                        }
                        if self.known_syms.contains(p) || scope.contains(p) {
                            self.push(
                                Severity::Warning,
                                DiagCode::ShadowedName(p.clone()),
                                Some(state),
                                Some(id),
                                format!("map parameter `{p}` shadows an outer binding"),
                            );
                        }
                    }
                    for (s, e) in &m.ranges {
                        self.check_expr_syms(s, scope, Some(state), Some(id), "map range");
                        self.check_expr_syms(e, scope, Some(state), Some(id), "map range");
                    }
                    if !has_dangling_edges(&m.body) && m.body.topological_order().is_none() {
                        let loc = self.state_name(Some(state)).to_string();
                        self.push(
                            Severity::Error,
                            DiagCode::CyclicState(loc.clone()),
                            Some(state),
                            Some(id),
                            format!("map body dataflow graph is cyclic (state `{loc}`)"),
                        );
                    }
                    let depth = scope.len();
                    scope.extend(m.params.iter().cloned());
                    self.check_graph(&m.body, state, scope);
                    scope.truncate(depth);
                }
                DfNode::Library(op) => self.check_library(graph, id, op, state),
            }
        }
        // Edges: endpoints, memlet data, subset shape.
        for e in &graph.edges {
            if e.src >= graph.nodes.len() || e.dst >= graph.nodes.len() {
                let loc = self.state_name(Some(state)).to_string();
                self.push(
                    Severity::Error,
                    DiagCode::DanglingEdge,
                    Some(state),
                    None,
                    format!(
                        "edge {} -> {} dangles: the graph has {} nodes (state `{loc}`)",
                        e.src,
                        e.dst,
                        graph.nodes.len()
                    ),
                );
                continue;
            }
            let array = &e.memlet.data;
            let Some(desc) = self.sdfg.arrays.get(array) else {
                let loc = self.state_name(Some(state)).to_string();
                self.push(
                    Severity::Error,
                    DiagCode::UnknownArray(array.clone()),
                    Some(state),
                    Some(e.src),
                    format!("memlet references undeclared array `{array}` (state `{loc}`)"),
                );
                continue;
            };
            for (node, end) in [(e.src, "source"), (e.dst, "destination")] {
                if let DfNode::Access(name) = &graph.nodes[node] {
                    if name != array {
                        self.push(
                            Severity::Warning,
                            DiagCode::DataMismatch,
                            Some(state),
                            Some(node),
                            format!("memlet moves `{array}` but its {end} access node is `{name}`"),
                        );
                    }
                }
            }
            let subset = &e.memlet.subset;
            if subset.is_all() {
                continue;
            }
            if subset.0.len() != desc.shape.len() {
                let loc = self.state_name(Some(state)).to_string();
                self.push(
                    Severity::Error,
                    DiagCode::RankMismatch,
                    Some(state),
                    Some(e.src),
                    format!(
                        "memlet `{}` has rank {} but `{array}` is declared with rank {} (state `{loc}`)",
                        e.memlet,
                        subset.0.len(),
                        desc.shape.len()
                    ),
                );
                continue;
            }
            for (d, r) in subset.0.iter().enumerate() {
                match r {
                    IndexRange::Index(ix) => {
                        self.check_expr_syms(ix, scope, Some(state), Some(e.src), "memlet subset");
                        self.check_const_bound(ix, &desc.shape[d], array, Some(state), Some(e.src));
                    }
                    IndexRange::Range { start, end } => {
                        for ix in [start, end] {
                            self.check_expr_syms(
                                ix,
                                scope,
                                Some(state),
                                Some(e.src),
                                "memlet subset",
                            );
                        }
                        // The runtime reads range dimensions at their start
                        // index, so only the start gets the hard bound check.
                        self.check_const_bound(
                            start,
                            &desc.shape[d],
                            array,
                            Some(state),
                            Some(e.src),
                        );
                    }
                }
            }
        }
    }
}

impl Sdfg {
    /// Validate structural invariants, returning every problem found.
    ///
    /// An empty result means the structure is sound; entries with
    /// [`Severity::Error`] make the SDFG unexecutable and are rejected by
    /// the runtime's `compile()`.  See the module docs for the severity
    /// policy.
    pub fn validate(&self) -> Vec<Diagnostic> {
        let mut known_syms: BTreeSet<String> = self.symbols.iter().cloned().collect();
        known_syms.extend(self.cfg.loop_iterators());
        let mut v = Verifier {
            sdfg: self,
            known_syms,
            diags: Vec::new(),
        };
        v.check_cf(&self.cfg);
        for (name, desc) in &self.arrays {
            for dim in &desc.shape {
                for s in v.unknown_symbols(dim, &[]) {
                    v.push(
                        Severity::Warning,
                        DiagCode::UnknownSymbol(s.to_string()),
                        None,
                        None,
                        format!("shape of array `{name}` references undeclared symbol `{s}`"),
                    );
                }
            }
        }
        let mut reachable = vec![false; self.states.len()];
        for sid in self.cfg.states_in_order() {
            // An index past the table is `UnknownState`'s to report.
            if let Some(reached) = reachable.get_mut(sid) {
                *reached = true;
            }
        }
        for (sid, st) in self.states.iter().enumerate() {
            if !reachable[sid] {
                v.push(
                    Severity::Warning,
                    DiagCode::UnreachableState(sid),
                    Some(sid),
                    None,
                    format!("no control-flow node references state `{}`", st.name),
                );
            }
            // A dangling edge would make the topological sort index out of
            // bounds; it is reported per edge, and cyclicity is moot then.
            if !has_dangling_edges(&st.graph) && st.graph.topological_order().is_none() {
                v.push(
                    Severity::Error,
                    DiagCode::CyclicState(st.name.clone()),
                    Some(sid),
                    None,
                    format!("dataflow graph of state `{}` is cyclic", st.name),
                );
            }
            let mut scope = Vec::new();
            v.check_graph(&st.graph, sid, &mut scope);
        }
        v.diags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DataflowGraph;
    use crate::memlet::{Memlet, Subset};
    use crate::scalar_expr::ScalarExpr;
    use crate::sdfg::{ArrayDesc, State};
    use crate::tasklet::Tasklet;

    fn one_state(graph: DataflowGraph) -> (Sdfg, usize) {
        let mut s = Sdfg::new("p");
        let id = s.add_state(State {
            name: "s0".into(),
            graph,
        });
        s.cfg = ControlFlow::State(id);
        (s, id)
    }

    fn errors(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
        diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    #[test]
    fn dangling_edge_is_an_error() {
        let mut g = DataflowGraph::new();
        let a = g.add_access("A");
        g.add_edge(a, None, 7, None, Memlet::all("A"));
        let (mut s, _) = one_state(g);
        s.add_array("A", ArrayDesc::input(vec![SymExpr::int(4)]))
            .unwrap();
        let diags = s.validate();
        assert!(errors(&diags)
            .iter()
            .any(|d| matches!(d.code, DiagCode::DanglingEdge)));
    }

    #[test]
    fn rank_mismatch_is_an_error() {
        let mut g = DataflowGraph::new();
        let a = g.add_access("A");
        let t = g.add_tasklet(Tasklet::new("t", "o", ScalarExpr::input("x")));
        g.add_edge(
            a,
            None,
            t,
            Some("x"),
            Memlet::element("A", vec![SymExpr::int(0), SymExpr::int(0)]),
        );
        let (mut s, _) = one_state(g);
        s.add_array("A", ArrayDesc::input(vec![SymExpr::int(4)]))
            .unwrap();
        let diags = s.validate();
        assert!(errors(&diags)
            .iter()
            .any(|d| matches!(d.code, DiagCode::RankMismatch)));
    }

    /// A tasklet expression reading a connector no in-edge feeds is one
    /// error per connector, however often the expression reads it.
    #[test]
    fn tasklet_reading_an_unfed_connector_is_an_error() {
        let mut g = DataflowGraph::new();
        let a = g.add_access("A");
        let code = ScalarExpr::input("x").mul(ScalarExpr::input("y").add(ScalarExpr::input("y")));
        let t = g.add_tasklet(Tasklet::new("t", "o", code));
        let w = g.add_access("A");
        let at = |i: i64| Memlet::element("A", vec![SymExpr::int(i)]);
        g.add_edge(a, None, t, Some("x"), at(0));
        g.add_edge(t, Some("o"), w, None, at(1));
        let (mut s, _) = one_state(g);
        s.add_array("A", ArrayDesc::input(vec![SymExpr::int(4)]))
            .unwrap();
        let diags = s.validate();
        let errs = errors(&diags);
        assert_eq!(errs.len(), 1, "{diags:?}");
        assert_eq!(errs[0].code, DiagCode::BadConnector);
        assert_eq!(errs[0].node, Some(t));
        assert!(errs[0].message.contains("`y`"), "{}", errs[0].message);
    }

    #[test]
    fn constant_index_out_of_bounds_is_an_error() {
        let mut g = DataflowGraph::new();
        let a = g.add_access("A");
        let t = g.add_tasklet(Tasklet::new("t", "o", ScalarExpr::input("x")));
        g.add_edge(
            a,
            None,
            t,
            Some("x"),
            Memlet::element("A", vec![SymExpr::int(9)]),
        );
        let (mut s, _) = one_state(g);
        s.add_array("A", ArrayDesc::input(vec![SymExpr::int(4)]))
            .unwrap();
        let diags = s.validate();
        assert!(errors(&diags)
            .iter()
            .any(|d| matches!(d.code, DiagCode::IndexOutOfBounds)));
        // A symbolic shape cannot be bounds-checked statically.
        let mut g = DataflowGraph::new();
        let a = g.add_access("B");
        let t = g.add_tasklet(Tasklet::new("t", "o", ScalarExpr::input("x")));
        g.add_edge(
            a,
            None,
            t,
            Some("x"),
            Memlet::element("B", vec![SymExpr::int(9)]),
        );
        let (mut s, _) = one_state(g);
        s.symbols.push("N".into());
        s.add_array("B", ArrayDesc::input(vec![SymExpr::sym("N")]))
            .unwrap();
        assert!(errors(&s.validate()).is_empty());
    }

    #[test]
    fn map_arity_and_duplicate_params_are_errors() {
        let mut body = DataflowGraph::new();
        body.add_access("A");
        let mut g = DataflowGraph::new();
        g.add_map(crate::graph::MapScope {
            params: vec!["i".into(), "i".into()],
            ranges: vec![(SymExpr::int(0), SymExpr::int(4))],
            body,
        });
        let (mut s, _) = one_state(g);
        s.add_array("A", ArrayDesc::input(vec![SymExpr::int(4)]))
            .unwrap();
        let diags = s.validate();
        let errs = errors(&diags);
        assert!(errs.iter().any(|d| matches!(d.code, DiagCode::MapArity)));
        assert!(errs
            .iter()
            .any(|d| matches!(d.code, DiagCode::DuplicateParam)));
    }

    #[test]
    fn undeclared_subset_symbol_is_a_warning() {
        let mut g = DataflowGraph::new();
        let a = g.add_access("A");
        let t = g.add_tasklet(Tasklet::new("t", "o", ScalarExpr::input("x")));
        g.add_edge(
            a,
            None,
            t,
            Some("x"),
            Memlet::element("A", vec![SymExpr::sym("mystery")]),
        );
        let (mut s, _) = one_state(g);
        s.add_array("A", ArrayDesc::input(vec![SymExpr::int(4)]))
            .unwrap();
        let diags = s.validate();
        assert!(errors(&diags).is_empty());
        assert!(diags
            .iter()
            .any(|d| matches!(&d.code, DiagCode::UnknownSymbol(n) if n == "mystery")));
    }

    #[test]
    fn map_params_are_in_scope_inside_the_body() {
        let mut body = DataflowGraph::new();
        let a = body.add_access("A");
        let t = body.add_tasklet(Tasklet::new("t", "o", ScalarExpr::input("x")));
        body.add_edge(
            a,
            None,
            t,
            Some("x"),
            Memlet::element("A", vec![SymExpr::sym("i")]),
        );
        let mut g = DataflowGraph::new();
        g.add_map(crate::graph::MapScope {
            params: vec!["i".into()],
            ranges: vec![(SymExpr::int(0), SymExpr::int(4))],
            body,
        });
        let (mut s, _) = one_state(g);
        s.add_array("A", ArrayDesc::input(vec![SymExpr::int(4)]))
            .unwrap();
        assert!(s.validate().is_empty());
    }

    /// Range dimensions are read at their start index, so the start gets
    /// the constant bound check.
    #[test]
    fn subset_of_ranges_is_validated() {
        let mut g = DataflowGraph::new();
        let a = g.add_access("A");
        let t = g.add_tasklet(Tasklet::new("t", "o", ScalarExpr::input("x")));
        g.add_edge(
            a,
            None,
            t,
            Some("x"),
            Memlet {
                data: "A".into(),
                subset: Subset(vec![IndexRange::range(SymExpr::int(9), SymExpr::int(10))]),
                wcr: None,
            },
        );
        let (mut s, _) = one_state(g);
        s.add_array("A", ArrayDesc::input(vec![SymExpr::int(4)]))
            .unwrap();
        assert!(errors(&s.validate())
            .iter()
            .any(|d| matches!(d.code, DiagCode::IndexOutOfBounds)));
    }

    /// Library nodes are checked at validation, not at their first run: one
    /// malformed program per connector and rank rule.
    #[test]
    fn malformed_library_nodes_are_errors() {
        use crate::graph::LibraryOp;
        let matmul = |edit: &dyn Fn(&mut DataflowGraph)| {
            let mut g = DataflowGraph::library_call(LibraryOp::MATMUL, &["A", "B"], "C", false);
            edit(&mut g);
            let (mut s, _) = one_state(g);
            for (name, rank) in [("A", 2), ("B", 2), ("C", 2), ("C2", 2), ("V", 1)] {
                s.add_array(name, ArrayDesc::input(vec![SymExpr::int(3); rank]))
                    .unwrap();
            }
            s.validate()
        };
        let codes = |diags: &[Diagnostic]| -> Vec<DiagCode> {
            errors(diags).iter().map(|d| d.code.clone()).collect()
        };
        assert!(matmul(&|_| {}).is_empty());
        // A fanned-out output is fine.
        let fan_out = |g: &mut DataflowGraph| {
            let c2 = g.add_access("C2");
            g.add_edge(2, Some("C"), c2, None, Memlet::all("C2"));
        };
        assert!(matmul(&fan_out).is_empty());

        // Missing: drop the `B` in-edge.
        let diags = matmul(&|g| g.edges.retain(|e| e.dst_conn.as_deref() != Some("B")));
        assert_eq!(codes(&diags), [DiagCode::BadConnector]);
        assert!(diags[0].message.contains("0 operands on `B`"), "{diags:?}");
        // Duplicated: feed `A` twice.
        let diags = matmul(&|g| g.add_edge(1, None, 2, Some("A"), Memlet::all("B")));
        assert_eq!(codes(&diags), [DiagCode::BadConnector]);
        assert!(diags[0].message.contains("2 operands on `A`"), "{diags:?}");
        // Unknown, on either side, and none at all.
        for edit in [
            &|g: &mut DataflowGraph| g.add_edge(0, None, 2, Some("Z"), Memlet::all("A")),
            &|g: &mut DataflowGraph| g.add_edge(0, None, 2, None, Memlet::all("A")),
            &|g: &mut DataflowGraph| g.add_edge(2, Some("y"), 3, None, Memlet::all("C")),
        ] as [&dyn Fn(&mut DataflowGraph); 3]
        {
            assert_eq!(codes(&matmul(edit)), [DiagCode::BadConnector]);
        }
        // No output edge.
        let diags = matmul(&|g| g.edges.retain(|e| e.src != 2));
        assert_eq!(codes(&diags), [DiagCode::BadConnector]);
        // Wrong operand rank, input and output side.
        for (conn, is_input) in [("B", true), ("C", false)] {
            let diags = matmul(&|g| {
                for e in &mut g.edges {
                    let on = if is_input { &e.dst_conn } else { &e.src_conn };
                    if on.as_deref() == Some(conn) {
                        e.memlet = Memlet::all("V");
                    }
                }
            });
            assert!(codes(&diags).contains(&DiagCode::RankMismatch), "{diags:?}");
        }

        // `Copy` takes any rank, but the same on both sides; `SumReduce`
        // any rank in, rank 1 out.
        let unary = |op: LibraryOp, src: &str, dst: &str| {
            let (mut s, _) = one_state(DataflowGraph::library_call(op, &[src], dst, false));
            for (name, rank) in [("M", 2), ("M2", 2), ("V", 1)] {
                s.add_array(name, ArrayDesc::input(vec![SymExpr::int(3); rank]))
                    .unwrap();
            }
            codes(&s.validate())
        };
        assert!(unary(LibraryOp::Copy, "M", "M2").is_empty());
        assert_eq!(unary(LibraryOp::Copy, "M", "V"), [DiagCode::RankMismatch]);
        let sum = LibraryOp::SumReduce { accumulate: false };
        assert!(unary(sum, "M", "V").is_empty());
        assert_eq!(unary(sum, "V", "M"), [DiagCode::RankMismatch]);
        assert_eq!(
            unary(LibraryOp::MatVec { trans_a: true }, "V", "V"),
            [DiagCode::BadConnector, DiagCode::RankMismatch]
        );
        // `Outer` takes two vectors to a matrix.
        let outer = |x: &str| {
            let graph = DataflowGraph::library_call(LibraryOp::Outer, &[x, "V"], "M2", false);
            let (mut s, _) = one_state(graph);
            for (name, rank) in [("M", 2), ("M2", 2), ("V", 1)] {
                s.add_array(name, ArrayDesc::input(vec![SymExpr::int(3); rank]))
                    .unwrap();
            }
            codes(&s.validate())
        };
        assert!(outer("V").is_empty());
        assert_eq!(outer("M"), [DiagCode::RankMismatch]);
    }
}
