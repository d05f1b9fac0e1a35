//! The Stateful DataFlow multiGraph container: arrays, symbols, states and
//! structured control flow.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::graph::DataflowGraph;
use crate::symexpr::{SymError, SymExpr};

/// Element data type of an array container.
///
/// The interpreter stores every container as `f64`; the dtype is kept as
/// metadata to mirror NPBench's float32 deep-learning kernels (documented
/// substitution).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DType {
    F64,
    F32,
    I64,
    Bool,
}

impl DType {
    /// Size of one element in bytes (as the paper's memory model counts it).
    pub fn size_bytes(&self) -> usize {
        match self {
            DType::F64 | DType::I64 => 8,
            DType::F32 => 4,
            DType::Bool => 1,
        }
    }
}

/// Descriptor of a data container.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct ArrayDesc {
    /// Symbolic shape.
    pub shape: Vec<SymExpr>,
    /// Element type (metadata only; storage is f64).
    pub dtype: DType,
    /// Transient containers are allocated and freed by the SDFG itself;
    /// non-transients are program inputs/outputs.
    pub transient: bool,
}

impl ArrayDesc {
    /// Non-transient f64 array.
    pub fn input(shape: Vec<SymExpr>) -> Self {
        ArrayDesc {
            shape,
            dtype: DType::F64,
            transient: false,
        }
    }

    /// Transient f64 array.
    pub fn transient(shape: Vec<SymExpr>) -> Self {
        ArrayDesc {
            shape,
            dtype: DType::F64,
            transient: true,
        }
    }

    /// Total element count under symbol bindings.
    pub fn volume(&self, bindings: &HashMap<String, i64>) -> Result<i64, SymError> {
        self.shape.iter().try_fold(1i64, |v, d| {
            v.checked_mul(d.eval(bindings)?.max(0))
                .ok_or(SymError::Overflow)
        })
    }

    /// Size in bytes under symbol bindings (every element stored as f64 at
    /// runtime, but sized by `dtype` for the memory model to match the
    /// paper's MiB numbers).
    pub fn size_bytes(&self, bindings: &HashMap<String, i64>) -> Result<i64, SymError> {
        self.volume(bindings)?
            .checked_mul(self.dtype.size_bytes() as i64)
            .ok_or(SymError::Overflow)
    }

    /// Concrete shape under symbol bindings.
    pub fn concrete_shape(&self, bindings: &HashMap<String, i64>) -> Result<Vec<usize>, SymError> {
        self.shape
            .iter()
            .map(|d| d.eval(bindings).map(|v| v.max(0) as usize))
            .collect()
    }
}

/// A state: a named dataflow graph, one "step" of the state machine.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct State {
    /// Name (unique within the SDFG).
    pub name: String,
    /// The dataflow contents of the state.
    pub graph: DataflowGraph,
}

/// Comparison operators in control-flow conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    /// Apply the comparison to two floats.
    pub fn apply(&self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }
}

/// Operand of a control-flow condition.
#[derive(Clone, Debug, PartialEq)]
pub enum CondOperand {
    /// A scalar element of an array, e.g. `A[0, 0]`.
    Element {
        /// Array name.
        array: String,
        /// Symbolic element index.
        index: Vec<SymExpr>,
    },
    /// An integer symbolic expression over SDFG symbols / loop iterators.
    Sym(SymExpr),
    /// A floating-point constant.
    Const(f64),
}

// Written out because `f64` has no `Hash`: the constant enters by its bits,
// so `0.0` and `-0.0` hash apart.  Keeps the plan-cache fingerprint a
// `derive` everywhere else.
impl Hash for CondOperand {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            CondOperand::Element { array, index } => {
                array.hash(state);
                index.hash(state);
            }
            CondOperand::Sym(e) => e.hash(state),
            CondOperand::Const(v) => v.to_bits().hash(state),
        }
    }
}

/// A control-flow condition (interstate-edge condition in DaCe terms).
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum CondExpr {
    /// Comparison of two operands.
    Cmp {
        lhs: CondOperand,
        op: CmpOp,
        rhs: CondOperand,
    },
    /// Negation.
    Not(Box<CondExpr>),
    /// Read a stored boolean flag (a `[1]`-shaped array written by the
    /// forward pass); used by backward SDFGs to replay forward decisions
    /// (Fig. 3 of the paper).
    StoredFlag(String),
}

impl CondExpr {
    /// Arrays referenced by the condition.
    pub fn referenced_arrays(&self) -> BTreeSet<String> {
        match self {
            CondExpr::Cmp { lhs, rhs, .. } => {
                let mut out = BTreeSet::new();
                for op in [lhs, rhs] {
                    if let CondOperand::Element { array, .. } = op {
                        out.insert(array.clone());
                    }
                }
                out
            }
            CondExpr::Not(inner) => inner.referenced_arrays(),
            CondExpr::StoredFlag(name) => {
                let mut out = BTreeSet::new();
                out.insert(name.clone());
                out
            }
        }
    }
}

/// Structured control flow of an SDFG.
///
/// DaCe represents control flow as a graph of states with conditional
/// interstate edges plus structured loop regions; this reproduction uses a
/// structured tree directly (Sequence / State / Loop / Branch), which covers
/// the loop taxonomy supported by the paper (affine `for` loops without
/// break/continue, branching, nesting).
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum ControlFlow {
    /// Execute a single state.
    State(usize),
    /// Execute children in order.
    Sequence(Vec<ControlFlow>),
    /// A sequential loop region `for var in start..end step step`.
    Loop(LoopRegion),
    /// A two-way branch.
    Branch(BranchRegion),
}

/// A sequential loop region.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct LoopRegion {
    /// Loop iterator name.
    pub var: String,
    /// Inclusive start (first value of the iterator).
    pub start: SymExpr,
    /// Exclusive end when `step > 0`; exclusive lower bound when `step < 0`.
    pub end: SymExpr,
    /// Step (non-zero integer expression, loop-invariant).
    pub step: SymExpr,
    /// Loop body.
    pub body: Box<ControlFlow>,
}

/// A structured branch region.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct BranchRegion {
    /// Branch condition.
    pub cond: CondExpr,
    /// Taken when the condition is true.
    pub then_body: Box<ControlFlow>,
    /// Taken when the condition is false (optional).
    pub else_body: Option<Box<ControlFlow>>,
}

impl ControlFlow {
    /// Iterate over the state ids referenced by this control-flow tree, in
    /// forward execution order (loop bodies and both branch arms once).
    pub fn states_in_order(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_states(&mut out);
        out
    }

    fn collect_states(&self, out: &mut Vec<usize>) {
        match self {
            ControlFlow::State(id) => out.push(*id),
            ControlFlow::Sequence(children) => {
                for c in children {
                    c.collect_states(out);
                }
            }
            ControlFlow::Loop(l) => l.body.collect_states(out),
            ControlFlow::Branch(b) => {
                b.then_body.collect_states(out);
                if let Some(e) = &b.else_body {
                    e.collect_states(out);
                }
            }
        }
    }

    /// All loop iterator names declared in the tree.
    pub fn loop_iterators(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_iterators(&mut out);
        out
    }

    fn collect_iterators(&self, out: &mut BTreeSet<String>) {
        match self {
            ControlFlow::State(_) => {}
            ControlFlow::Sequence(children) => {
                for c in children {
                    c.collect_iterators(out);
                }
            }
            ControlFlow::Loop(l) => {
                out.insert(l.var.clone());
                l.body.collect_iterators(out);
            }
            ControlFlow::Branch(b) => {
                b.then_body.collect_iterators(out);
                if let Some(e) = &b.else_body {
                    e.collect_iterators(out);
                }
            }
        }
    }
}

/// Errors raised when constructing or validating SDFGs.
#[derive(Clone, Debug, PartialEq)]
pub enum SdfgError {
    /// A referenced array is not declared.
    UnknownArray(String),
    /// An array is declared twice.
    DuplicateArray(String),
    /// Generic validation failure.
    Invalid(String),
}

impl fmt::Display for SdfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdfgError::UnknownArray(a) => write!(f, "unknown array `{a}`"),
            SdfgError::DuplicateArray(a) => write!(f, "array `{a}` declared twice"),
            SdfgError::Invalid(m) => write!(f, "invalid SDFG: {m}"),
        }
    }
}

impl std::error::Error for SdfgError {}

/// A Stateful DataFlow multiGraph.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Sdfg {
    /// Name of the program.
    pub name: String,
    /// Data containers by name.
    pub arrays: BTreeMap<String, ArrayDesc>,
    /// Free integer symbols (problem sizes such as `N`, `TSTEPS`).
    pub symbols: Vec<String>,
    /// States (dataflow graphs).
    pub states: Vec<State>,
    /// Structured control flow over the states.
    pub cfg: ControlFlow,
}

impl Sdfg {
    /// Create an empty SDFG with an empty sequence as control flow.
    pub fn new(name: impl Into<String>) -> Self {
        Sdfg {
            name: name.into(),
            arrays: BTreeMap::new(),
            symbols: Vec::new(),
            states: Vec::new(),
            cfg: ControlFlow::Sequence(Vec::new()),
        }
    }

    /// Declare an array container.
    pub fn add_array(&mut self, name: impl Into<String>, desc: ArrayDesc) -> Result<(), SdfgError> {
        let name = name.into();
        if self.arrays.contains_key(&name) {
            return Err(SdfgError::DuplicateArray(name));
        }
        self.arrays.insert(name, desc);
        Ok(())
    }

    /// Declare a free symbol if not already present.
    pub fn add_symbol(&mut self, name: impl Into<String>) {
        let name = name.into();
        if !self.symbols.contains(&name) {
            self.symbols.push(name);
        }
    }

    /// Add a state and return its id.
    pub fn add_state(&mut self, state: State) -> usize {
        self.states.push(state);
        self.states.len() - 1
    }

    /// The descriptor of an array.
    pub fn array(&self, name: &str) -> Result<&ArrayDesc, SdfgError> {
        self.arrays
            .get(name)
            .ok_or_else(|| SdfgError::UnknownArray(name.to_string()))
    }

    /// Generate a fresh array name based on `base` that does not collide with
    /// existing containers.
    pub fn fresh_name(&self, base: &str) -> String {
        if !self.arrays.contains_key(base) {
            return base.to_string();
        }
        let mut i = 1;
        loop {
            let candidate = format!("{base}_{i}");
            if !self.arrays.contains_key(&candidate) {
                return candidate;
            }
            i += 1;
        }
    }

    // Structural validation lives in `crate::verify`: `validate()` returns
    // located diagnostics.

    /// Human-readable multi-line description (used in docs and debugging).
    pub fn describe(&self) -> String {
        let mut out = format!("SDFG `{}`\n", self.name);
        out.push_str(&format!(
            "  symbols: {}\n  arrays:\n",
            self.symbols.join(", ")
        ));
        for (name, desc) in &self.arrays {
            let dims: Vec<String> = desc.shape.iter().map(|d| d.to_string()).collect();
            out.push_str(&format!(
                "    {name}[{}]{}\n",
                dims.join(", "),
                if desc.transient { " (transient)" } else { "" }
            ));
        }
        out.push_str(&format!("  states: {}\n", self.states.len()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::DiagCode;

    #[test]
    fn array_descriptor_sizes() {
        let d = ArrayDesc::input(vec![SymExpr::sym("N"), SymExpr::sym("N")]);
        let mut bind = HashMap::new();
        bind.insert("N".to_string(), 100);
        assert_eq!(d.volume(&bind).unwrap(), 10_000);
        assert_eq!(d.size_bytes(&bind).unwrap(), 80_000);
        assert_eq!(d.concrete_shape(&bind).unwrap(), vec![100, 100]);
    }

    #[test]
    fn duplicate_array_rejected() {
        let mut s = Sdfg::new("p");
        s.add_array("A", ArrayDesc::input(vec![SymExpr::int(4)]))
            .unwrap();
        assert!(s
            .add_array("A", ArrayDesc::input(vec![SymExpr::int(4)]))
            .is_err());
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let mut s = Sdfg::new("p");
        s.add_array("grad_A", ArrayDesc::input(vec![SymExpr::int(4)]))
            .unwrap();
        assert_eq!(s.fresh_name("grad_A"), "grad_A_1");
        assert_eq!(s.fresh_name("B"), "B");
    }

    #[test]
    fn validate_detects_unknown_array() {
        let mut s = Sdfg::new("p");
        let mut state = State {
            name: "s0".into(),
            graph: DataflowGraph::new(),
        };
        state.graph.add_access("missing");
        let id = s.add_state(state);
        s.cfg = ControlFlow::State(id);
        assert!(s
            .validate()
            .iter()
            .any(|d| matches!(&d.code, DiagCode::UnknownArray(a) if a == "missing")));
    }

    #[test]
    fn validate_detects_unknown_state() {
        let mut s = Sdfg::new("p");
        s.cfg = ControlFlow::State(3);
        assert!(s
            .validate()
            .iter()
            .any(|d| d.code == DiagCode::UnknownState(3)));
    }

    #[test]
    fn validate_detects_unreachable_state() {
        let mut s = Sdfg::new("p");
        for name in ["runs", "never"] {
            s.add_state(State {
                name: name.into(),
                graph: DataflowGraph::new(),
            });
        }
        s.cfg = ControlFlow::State(0);
        let diags = s.validate();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, DiagCode::UnreachableState(1));
        assert_eq!(diags[0].severity, crate::verify::Severity::Warning);
    }

    #[test]
    fn control_flow_state_collection() {
        let cfg = ControlFlow::Sequence(vec![
            ControlFlow::State(0),
            ControlFlow::Loop(LoopRegion {
                var: "i".into(),
                start: SymExpr::int(0),
                end: SymExpr::sym("N"),
                step: SymExpr::int(1),
                body: Box::new(ControlFlow::Sequence(vec![
                    ControlFlow::State(1),
                    ControlFlow::Branch(BranchRegion {
                        cond: CondExpr::Cmp {
                            lhs: CondOperand::Sym(SymExpr::sym("i")),
                            op: CmpOp::Lt,
                            rhs: CondOperand::Const(3.0),
                        },
                        then_body: Box::new(ControlFlow::State(2)),
                        else_body: Some(Box::new(ControlFlow::State(3))),
                    }),
                ])),
            }),
        ]);
        assert_eq!(cfg.states_in_order(), vec![0, 1, 2, 3]);
        assert!(cfg.loop_iterators().contains("i"));
    }

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Lt.apply(1.0, 2.0));
        assert!(CmpOp::Ge.apply(2.0, 2.0));
        assert!(CmpOp::Ne.apply(1.0, 2.0));
        assert!(!CmpOp::Eq.apply(1.0, 2.0));
    }

    #[test]
    fn cond_referenced_arrays() {
        let c = CondExpr::Cmp {
            lhs: CondOperand::Element {
                array: "A".into(),
                index: vec![SymExpr::int(0)],
            },
            op: CmpOp::Gt,
            rhs: CondOperand::Const(0.0),
        };
        assert!(c.referenced_arrays().contains("A"));
        let f = CondExpr::StoredFlag("cond_0".into());
        assert!(f.referenced_arrays().contains("cond_0"));
    }

    #[test]
    fn describe_mentions_arrays() {
        let mut s = Sdfg::new("prog");
        s.add_symbol("N");
        s.add_array("A", ArrayDesc::input(vec![SymExpr::sym("N")]))
            .unwrap();
        let d = s.describe();
        assert!(d.contains("prog"));
        assert!(d.contains("A[N]"));
    }
}
