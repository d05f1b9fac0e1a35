//! Dataflow graphs: the contents of an SDFG state.
//!
//! A dataflow graph is a DAG of access nodes, tasklets, nested map scopes and
//! library nodes, connected by edges carrying memlets.  Map scopes own a
//! nested dataflow graph (their body); this replaces DaCe's map-entry /
//! map-exit node pairs with an equivalent but easier-to-reverse structure.

use std::collections::{BTreeSet, HashMap};

use crate::memlet::Memlet;
use crate::symexpr::SymExpr;
use crate::tasklet::Tasklet;

/// Identifier of a node inside one dataflow graph.
pub type NodeId = usize;

/// Library nodes: coarse-grained operations expanded into optimized kernels
/// by the runtime (the equivalent of DaCe's BLAS library nodes).
///
/// The products read a matrix operand transposed under its flag — the form
/// their own adjoints take (`gA += gC @ Bᵀ`, `gx += Aᵀ @ gy`, and the rank-1
/// `gA += gy ⊗ x`), so reverse mode never materialises a transpose and is
/// closed over these nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LibraryOp {
    /// `C = op(A) @ op(B)` for 2-D operands (connectors: "A", "B" -> "C").
    MatMul {
        /// Read `A` as `Aᵀ`.
        trans_a: bool,
        /// Read `B` as `Bᵀ`.
        trans_b: bool,
    },
    /// `y = op(A) @ x` matrix-vector product (connectors: "A", "x" -> "y").
    MatVec {
        /// Read `A` as `Aᵀ`.
        trans_a: bool,
    },
    /// `B = A^T` (connectors: "A" -> "B").
    Transpose,
    /// `out = sum(IN)` full reduction to a scalar array of shape `[1]`
    /// (connectors: "IN" -> "OUT"). With `accumulate`, `OUT += sum(IN)`.
    SumReduce {
        /// Accumulate into the output instead of overwriting it.
        accumulate: bool,
    },
    /// Copy `A` into `B` element-wise (connectors: "A" -> "B").
    Copy,
    /// `A = x ⊗ y`, the rank-1 matrix `A[i, j] = x[i] * y[j]` (connectors:
    /// "x", "y" -> "A").
    Outer,
}

impl LibraryOp {
    /// `A @ B` with neither operand transposed.
    pub const MATMUL: LibraryOp = LibraryOp::MatMul {
        trans_a: false,
        trans_b: false,
    };
    /// `A @ x` with `A` as stored.
    pub const MATVEC: LibraryOp = LibraryOp::MatVec { trans_a: false };

    /// Input connector names of the library node.
    pub fn input_connectors(&self) -> Vec<&'static str> {
        match self {
            LibraryOp::MatMul { .. } => vec!["A", "B"],
            LibraryOp::MatVec { .. } => vec!["A", "x"],
            LibraryOp::Transpose => vec!["A"],
            LibraryOp::SumReduce { .. } => vec!["IN"],
            LibraryOp::Copy => vec!["A"],
            LibraryOp::Outer => vec!["x", "y"],
        }
    }

    /// Output connector names of the library node.
    pub fn output_connectors(&self) -> Vec<&'static str> {
        match self {
            LibraryOp::MatMul { .. } => vec!["C"],
            LibraryOp::MatVec { .. } => vec!["y"],
            LibraryOp::Transpose => vec!["B"],
            LibraryOp::SumReduce { .. } => vec!["OUT"],
            LibraryOp::Copy => vec!["B"],
            LibraryOp::Outer => vec!["A"],
        }
    }

    /// The rank an operand on `connector` must have; `None` for the
    /// connectors that take any rank (`SumReduce`'s input and `Copy`, whose
    /// two sides only have to agree).
    pub fn operand_rank(&self, connector: &str) -> Option<usize> {
        match (self, connector) {
            (LibraryOp::MatMul { .. } | LibraryOp::Transpose, _) => Some(2),
            (LibraryOp::MatVec { .. }, "A") | (LibraryOp::Outer, "A") => Some(2),
            (LibraryOp::MatVec { .. } | LibraryOp::Outer, _)
            | (LibraryOp::SumReduce { .. }, "OUT") => Some(1),
            (LibraryOp::SumReduce { .. } | LibraryOp::Copy, _) => None,
        }
    }
}

/// A map scope: a parallel loop over an N-dimensional index set whose body is
/// a nested dataflow graph.
#[derive(Clone, Debug, PartialEq)]
pub struct MapScope {
    /// Map parameters (one per dimension).
    pub params: Vec<String>,
    /// Half-open iteration ranges `[start, end)` per parameter.
    pub ranges: Vec<(SymExpr, SymExpr)>,
    /// The nested dataflow body executed once per index point.
    pub body: DataflowGraph,
}

/// A node of a dataflow graph.
#[derive(Clone, Debug, PartialEq)]
pub enum DfNode {
    /// Access node referencing a data container by name.
    Access(String),
    /// Fine-grained computation.
    Tasklet(Tasklet),
    /// Parallel map scope with a nested body.
    MapScope(MapScope),
    /// Coarse-grained library operation.
    Library(LibraryOp),
}

/// A directed edge between two nodes, annotated with a memlet.
#[derive(Clone, Debug, PartialEq)]
pub struct Edge {
    /// Source node id.
    pub src: NodeId,
    /// Source connector (tasklet output / library output), if any.
    pub src_conn: Option<String>,
    /// Destination node id.
    pub dst: NodeId,
    /// Destination connector (tasklet input / library input), if any.
    pub dst_conn: Option<String>,
    /// The data movement description.
    pub memlet: Memlet,
}

/// A dataflow graph (the contents of a state or of a map-scope body).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct DataflowGraph {
    /// Nodes, addressed by index.
    pub nodes: Vec<DfNode>,
    /// Edges with memlets.
    pub edges: Vec<Edge>,
}

impl DataflowGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, node: DfNode) -> NodeId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Add an access node.
    pub fn add_access(&mut self, array: impl Into<String>) -> NodeId {
        self.add_node(DfNode::Access(array.into()))
    }

    /// Add a tasklet node.
    pub fn add_tasklet(&mut self, tasklet: Tasklet) -> NodeId {
        self.add_node(DfNode::Tasklet(tasklet))
    }

    /// Add a map scope node.
    pub fn add_map(&mut self, map: MapScope) -> NodeId {
        self.add_node(DfNode::MapScope(map))
    }

    /// Add a library node.
    pub fn add_library(&mut self, op: LibraryOp) -> NodeId {
        self.add_node(DfNode::Library(op))
    }

    /// The graph of one library call: `operands`, in the order of the op's
    /// input connectors, feed `op`, whose output is written to the whole of
    /// `dst` — accumulated (`Wcr::Sum`) with `accumulate`.
    pub fn library_call(op: LibraryOp, operands: &[&str], dst: &str, accumulate: bool) -> Self {
        let mut g = DataflowGraph::new();
        let reads: Vec<NodeId> = operands.iter().map(|a| g.add_access(*a)).collect();
        let lib = g.add_library(op);
        let write = g.add_access(dst);
        for ((node, conn), array) in reads.into_iter().zip(op.input_connectors()).zip(operands) {
            g.add_edge(node, None, lib, Some(conn), Memlet::all(*array));
        }
        let memlet = if accumulate {
            Memlet::all(dst).with_wcr_sum()
        } else {
            Memlet::all(dst)
        };
        g.add_edge(lib, Some(op.output_connectors()[0]), write, None, memlet);
        g
    }

    /// Add an edge.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        src_conn: Option<&str>,
        dst: NodeId,
        dst_conn: Option<&str>,
        memlet: Memlet,
    ) {
        self.edges.push(Edge {
            src,
            src_conn: src_conn.map(|s| s.to_string()),
            dst,
            dst_conn: dst_conn.map(|s| s.to_string()),
            memlet,
        });
    }

    /// Incoming edges of a node.
    pub fn in_edges(&self, node: NodeId) -> Vec<&Edge> {
        self.edges.iter().filter(|e| e.dst == node).collect()
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, node: NodeId) -> Vec<&Edge> {
        self.edges.iter().filter(|e| e.src == node).collect()
    }

    /// Topological order of the nodes (Kahn's algorithm; among the ready
    /// nodes, first ready first out, sources in id order).
    ///
    /// Returns `None` if the graph has a cycle.
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let n = self.nodes.len();
        // Successors of `u`, in edge order, are `succ[first[u]..first[u + 1]]`:
        // one array for the whole graph instead of a list per node.
        let mut indeg = vec![0usize; n];
        let mut first = vec![0usize; n + 2];
        for e in &self.edges {
            indeg[e.dst] += 1;
            first[e.src + 2] += 1;
        }
        for u in 2..n + 2 {
            first[u] += first[u - 1];
        }
        // Filling moves `first[u + 1]` from the start of `u`'s range to its
        // end, which is where the range of `u + 1` starts.
        let mut succ = vec![0; self.edges.len()];
        for e in &self.edges {
            succ[first[e.src + 1]] = e.dst;
            first[e.src + 1] += 1;
        }
        // The order doubles as the queue: nodes before `head` are done.
        let mut order: Vec<NodeId> = (0..n).filter(|&i| indeg[i] == 0).collect();
        order.reserve_exact(n - order.len());
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            for &v in &succ[first[u]..first[u + 1]] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    order.push(v);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Names of the arrays this graph reads (nested map bodies included):
    /// the sources of its access-node edges.
    pub fn read_arrays(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_arrays(&mut out, |e| e.src);
        out
    }

    /// Names of the arrays this graph writes (nested map bodies included):
    /// the destinations of its access-node edges.
    pub fn written_arrays(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_arrays(&mut out, |e| e.dst);
        out
    }

    fn collect_arrays(&self, out: &mut BTreeSet<String>, end: fn(&Edge) -> NodeId) {
        for e in &self.edges {
            if let DfNode::Access(name) = &self.nodes[end(e)] {
                if !out.contains(name) {
                    out.insert(name.clone());
                }
            }
        }
        for node in &self.nodes {
            if let DfNode::MapScope(m) = node {
                m.body.collect_arrays(out, end);
            }
        }
    }

    /// All arrays referenced by this graph (reads and writes, nested bodies
    /// included).
    pub fn referenced_arrays(&self) -> BTreeSet<String> {
        let mut out = self.read_arrays();
        out.append(&mut self.written_arrays());
        // Access nodes with no edges still reference the array.
        for node in &self.nodes {
            match node {
                DfNode::Access(name) => {
                    out.insert(name.clone());
                }
                DfNode::MapScope(m) => out.extend(m.body.referenced_arrays()),
                _ => {}
            }
        }
        out
    }

    /// Estimated floating-point operation count of one execution of the graph
    /// under the given symbol bindings (used by the recomputation cost model).
    pub fn flop_estimate(&self, bindings: &HashMap<String, i64>) -> f64 {
        let mut total = 0.0;
        for (i, node) in self.nodes.iter().enumerate() {
            total += match node {
                DfNode::Access(_) => 0.0,
                DfNode::Tasklet(t) => t.op_count() as f64,
                DfNode::MapScope(m) => {
                    let mut domain = 1.0;
                    let mut inner_bindings = bindings.clone();
                    for (p, (start, end)) in m.params.iter().zip(m.ranges.iter()) {
                        let s = start.eval(bindings).unwrap_or(0);
                        let e = end.eval(bindings).unwrap_or(0);
                        domain *= (e - s).max(0) as f64;
                        inner_bindings.insert(p.clone(), s);
                    }
                    domain * m.body.flop_estimate(&inner_bindings)
                }
                DfNode::Library(op) => self.library_flops(i, op, bindings),
            };
        }
        total
    }

    fn library_flops(&self, node: NodeId, op: &LibraryOp, bindings: &HashMap<String, i64>) -> f64 {
        // Volume-based estimate from the incoming memlets.
        let in_volume: f64 = self
            .in_edges(node)
            .iter()
            .map(|e| e.memlet.subset.volume(bindings).unwrap_or(1).max(1) as f64)
            .sum();
        match op {
            LibraryOp::MatMul { .. } => in_volume.powf(1.5), // ~ 2*N^3 for square N^2 inputs
            LibraryOp::MatVec { .. } => 2.0 * in_volume,
            LibraryOp::Transpose | LibraryOp::Copy => in_volume,
            LibraryOp::SumReduce { .. } => in_volume,
            // m·n, one product per element: the output's volume, not the
            // operands' m + n.
            LibraryOp::Outer => self
                .out_edges(node)
                .first()
                .and_then(|e| e.memlet.subset.volume(bindings).ok())
                .unwrap_or(1)
                .max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar_expr::ScalarExpr as E;

    fn simple_graph() -> DataflowGraph {
        // A -> tasklet(out = a * 2) -> B
        let mut g = DataflowGraph::new();
        let a = g.add_access("A");
        let t = g.add_tasklet(Tasklet::new("scale", "out", E::input("a").mul(E::c(2.0))));
        let b = g.add_access("B");
        g.add_edge(
            a,
            None,
            t,
            Some("a"),
            Memlet::element("A", vec![SymExpr::int(0)]),
        );
        g.add_edge(
            t,
            Some("out"),
            b,
            None,
            Memlet::element("B", vec![SymExpr::int(0)]),
        );
        g
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = simple_graph();
        let order = g.topological_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
    }

    /// The order is the one of the textbook formulation — a list of
    /// successors per node and a FIFO of ready nodes —, which the executor's
    /// results depend on, on graphs with fan-out, fan-in, parallel edges and
    /// isolated nodes.
    #[test]
    fn topological_order_is_kahns_fifo_order() {
        fn reference(g: &DataflowGraph) -> Option<Vec<NodeId>> {
            let n = g.nodes.len();
            let mut indeg = vec![0; n];
            let mut adj = vec![Vec::new(); n];
            for e in &g.edges {
                indeg[e.dst] += 1;
                adj[e.src].push(e.dst);
            }
            let mut queue: std::collections::VecDeque<_> =
                (0..n).filter(|&i| indeg[i] == 0).collect();
            let mut order = Vec::new();
            while let Some(u) = queue.pop_front() {
                order.push(u);
                for &v in &adj[u] {
                    indeg[v] -= 1;
                    if indeg[v] == 0 {
                        queue.push_back(v);
                    }
                }
            }
            (order.len() == n).then_some(order)
        }
        // Pseudo-random DAGs (edges from lower to higher position of a
        // shuffled node list), every third one closed into a cycle.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: usize| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize % bound
        };
        for case in 0..60 {
            let n = 1 + next(9);
            let mut rank: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                rank.swap(i, next(i + 1));
            }
            let mut g = DataflowGraph::new();
            for i in 0..n {
                g.add_access(format!("a{i}"));
            }
            for _ in 0..next(2 * n + 1) {
                let (a, b) = (next(n), next(n));
                if rank[a] < rank[b] {
                    g.add_edge(a, None, b, None, Memlet::all("x"));
                }
            }
            if case % 3 == 2 && n > 1 {
                g.add_edge(0, None, 1, None, Memlet::all("x"));
                g.add_edge(1, None, 0, None, Memlet::all("x"));
            }
            assert_eq!(g.topological_order(), reference(&g), "case {case}: {g:?}");
        }
    }

    #[test]
    fn cycle_is_detected() {
        let mut g = simple_graph();
        // add a back edge B -> A through the tasklet to create a cycle
        g.add_edge(2, None, 0, None, Memlet::all("B"));
        g.add_edge(0, None, 2, None, Memlet::all("A"));
        // 0 -> 1 -> 2 -> 0 is a cycle
        g.add_edge(2, None, 1, Some("a"), Memlet::all("B"));
        g.add_edge(1, Some("out"), 0, None, Memlet::all("A"));
        assert!(g.topological_order().is_none() || g.topological_order().is_some());
        // Build an explicit 2-cycle to be precise:
        let mut g2 = DataflowGraph::new();
        let x = g2.add_access("X");
        let y = g2.add_access("Y");
        g2.add_edge(x, None, y, None, Memlet::all("X"));
        g2.add_edge(y, None, x, None, Memlet::all("Y"));
        assert!(g2.topological_order().is_none());
    }

    #[test]
    fn reads_and_writes_are_collected() {
        let g = simple_graph();
        let reads = g.read_arrays();
        let writes = g.written_arrays();
        assert!(reads.contains("A"));
        assert!(!reads.contains("B"));
        assert!(writes.contains("B"));
        assert!(!writes.contains("A"));
    }

    #[test]
    fn nested_map_reads_propagate() {
        let mut body = DataflowGraph::new();
        let src = body.add_access("X");
        let t = body.add_tasklet(Tasklet::new("t", "o", E::input("x")));
        let dst = body.add_access("Y");
        body.add_edge(
            src,
            None,
            t,
            Some("x"),
            Memlet::element("X", vec![SymExpr::sym("i")]),
        );
        body.add_edge(
            t,
            Some("o"),
            dst,
            None,
            Memlet::element("Y", vec![SymExpr::sym("i")]),
        );
        let mut g = DataflowGraph::new();
        g.add_map(MapScope {
            params: vec!["i".into()],
            ranges: vec![(SymExpr::int(0), SymExpr::sym("N"))],
            body,
        });
        assert!(g.read_arrays().contains("X"));
        assert!(g.written_arrays().contains("Y"));
        assert!(g.referenced_arrays().contains("X"));
    }

    #[test]
    fn flop_estimate_scales_with_map_domain() {
        let mut body = DataflowGraph::new();
        let src = body.add_access("X");
        let t = body.add_tasklet(Tasklet::new(
            "t",
            "o",
            E::input("x").mul(E::input("x")).add(E::c(1.0)),
        ));
        let dst = body.add_access("Y");
        body.add_edge(
            src,
            None,
            t,
            Some("x"),
            Memlet::element("X", vec![SymExpr::sym("i")]),
        );
        body.add_edge(
            t,
            Some("o"),
            dst,
            None,
            Memlet::element("Y", vec![SymExpr::sym("i")]),
        );
        let mut g = DataflowGraph::new();
        g.add_map(MapScope {
            params: vec!["i".into()],
            ranges: vec![(SymExpr::int(0), SymExpr::sym("N"))],
            body,
        });
        let mut bind = HashMap::new();
        bind.insert("N".to_string(), 100);
        assert_eq!(g.flop_estimate(&bind), 200.0);
    }

    #[test]
    fn library_connectors() {
        assert_eq!(LibraryOp::MATMUL.input_connectors(), vec!["A", "B"]);
        assert_eq!(LibraryOp::MATMUL.output_connectors(), vec!["C"]);
        assert_eq!(
            LibraryOp::SumReduce { accumulate: true }.output_connectors(),
            vec!["OUT"]
        );
        let outer = LibraryOp::Outer;
        assert_eq!(outer.input_connectors(), vec!["x", "y"]);
        assert_eq!(outer.output_connectors(), vec!["A"]);
        let ranks = ["x", "y", "A"].map(|c| outer.operand_rank(c));
        assert_eq!(ranks, [Some(1), Some(1), Some(2)]);
    }
}
