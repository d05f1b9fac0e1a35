//! # dace-sdfg
//!
//! The Stateful DataFlow multiGraph (SDFG) intermediate representation, the
//! symbolic expression machinery, and the dataflow analyses used by the
//! DaCe AD reproduction.
//!
//! The IR mirrors the components described in Section I of the paper:
//!
//! * **Access nodes** ([`graph::DfNode::Access`]) expose data containers;
//!   incoming edges are writes, outgoing edges are reads.
//! * **Memlets** ([`memlet::Memlet`]) describe the moved data subset and the
//!   write-conflict resolution.
//! * **Tasklets** ([`tasklet::Tasklet`]) are fine-grained scalar computations
//!   written in the [`scalar_expr::ScalarExpr`] language, which supports the
//!   symbolic differentiation DaCe AD relies on.
//! * **Maps** ([`graph::MapScope`]) are parallel regions over an index set.
//! * **Library nodes** ([`graph::LibraryOp`]) expand to optimized kernels.
//! * **States** ([`sdfg::State`]) group dataflow, and the structured
//!   [`sdfg::ControlFlow`] tree provides sequences, sequential loop regions
//!   and branches.
//!
//! The [`analysis`] module implements the critical computation subgraph
//! (CCS) extraction of Section II plus the access summaries and cost
//! estimates used by the AD engine and the ILP checkpointing model.
//! The [`verify`] module is the structural verifier ([`sdfg::Sdfg::validate`]
//! returns located [`verify::Diagnostic`]s) and [`deps`] is the affine
//! dependence/race analyzer: its [`deps::ParVerdict`] is a diagnostic
//! (`npbench --verify`, CI), the oracle a parallel map backend would consume.
//! [`trig`] holds the tasklet language's `sin` / `cos`, whose bits do not
//! depend on the host's libm or on the vector width.
//!
//! # Invariants
//!
//! * An [`sdfg::Sdfg`] is **pure structure**: it owns no tensors and no
//!   runtime state, so it can be cloned, transformed (the reverse pass
//!   rewrites it freely) and compared: two builds of one program are `==`
//!   (no pass walks a `HashMap` into the graph).
//! * Array shapes and loop bounds are *symbolic* ([`symexpr::SymExpr`])
//!   until execution: concrete symbol values are supplied at plan
//!   compilation, which is why a plan is specialised per (SDFG, symbol
//!   values) pair rather than per SDFG.
//! * [`scalar_expr::ScalarExpr`] is closed under differentiation
//!   ([`scalar_expr::ScalarExpr::derivative`]): the reverse pass emits
//!   adjoint tasklets in the same language it reads, so differentiated
//!   programs lower and execute exactly like hand-written ones.
//!
//! ```
//! use dace_sdfg::SymExpr;
//!
//! // Symbolic sizes evaluate once concrete values are known.
//! let n = SymExpr::sym("N");
//! let bound = n.mul(&n).add_int(1); // N*N + 1
//! let vals = std::collections::HashMap::from([("N".to_string(), 4i64)]);
//! assert_eq!(bound.eval(&vals).unwrap(), 17);
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod deps;
pub mod graph;
pub mod memlet;
pub mod scalar_expr;
pub mod sdfg;
pub mod symexpr;
pub mod tasklet;
pub mod trig;
pub mod verify;

pub use analysis::{compute_ccs, is_full_overwrite, CcsInfo};
pub use deps::{analyze_map, AffineAccess, Conflict, ParVerdict};
pub use graph::{DataflowGraph, DfNode, Edge, LibraryOp, MapScope, NodeId};
pub use memlet::{IndexRange, Memlet, Subset, SubsetClass, Wcr};
pub use scalar_expr::{
    BinOp, CompiledExpr, ExprOp, LeafRef, MicroPattern, ScalarExpr, UnOp, STRIP,
};
pub use sdfg::{
    ArrayDesc, BranchRegion, CmpOp, CondExpr, CondOperand, ControlFlow, DType, LoopRegion, Sdfg,
    SdfgError, State,
};
pub use symexpr::{SymError, SymExpr};
pub use tasklet::Tasklet;
pub use verify::{DiagCode, Diagnostic, Severity};
